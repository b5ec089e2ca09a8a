"""End-to-end command line runs at reduced scale."""
import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from conftest import SHIPPED, run_fresh, spec_path
from mbpm import (a_seq, classify, cli, cond_mean, gamma_cdf, gof_report, lambda_n, load_spec,
                  normal_cdf, params_from_spec, run_ensemble)
from mbpm.cli import _ks_check, _rank_cells, _write_tsv, main


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def test_moments_suite_passes(tmp_path, capsys):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("two_type_mixed"), "--suite", "moments",
                 "--reps", "10000", "--seed", "7", "--out", out])
    assert code == 0
    assert "moments: PASS" in capsys.readouterr().out
    report = read_report(out)
    assert report["suite"] == "moments"
    assert report["passed"] is True
    assert report["results"]["moment_check"]["max_mean_sigmas"] < 4.0
    assert os.path.exists(os.path.join(out, "moment_bands.tsv"))


def test_moments_suite_state_override(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("two_type_mixed"), "--suite", "moments",
                 "--reps", "10000", "--seed", "8", "--out", out,
                 "--state", "12,8"])
    assert code == 0
    assert read_report(out)["results"]["moment_check"]["z"] == [12, 8]


def test_moments_suite_draws_at_least_ten_thousand(tmp_path):
    # the report keeps --reps as given beside the samples actually drawn
    out = str(tmp_path / "rep")
    assert main(["--spec", spec_path("two_type_mixed"), "--suite", "moments",
                 "--reps", "5", "--seed", "7", "--out", out]) == 0
    report = read_report(out)
    assert report["replicates"] == 5
    assert report["results"]["moment_check"]["n_samples"] == 10_000


def test_classify_suite_checks_expectation(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("two_type_mixed"), "--suite", "classify",
                 "--out", out])
    assert code == 0
    report = read_report(out)
    assert report["results"]["classification"]["verdict"] == "no-growth"
    assert report["results"]["expected_verdict"] == "no-growth"
    assert os.path.exists(os.path.join(out, "ratio_curve.tsv"))


def test_classify_suite_large_poisson_rates(tmp_path, monkeypatch):
    # at the 1e6 probe the sqrt-drift immigration draws 1 + Poisson(999), and
    # exp(-999) underflows to 0.0
    monkeypatch.setattr(classify, "RAY_POINTS", (1e3, 1e4, 1e5, 1e6))
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("sqrt_drift_single_type"), "--suite", "classify",
                 "--out", out])
    assert code == 0
    assert read_report(out)["results"]["classification"]["verdict"] == "growth-possible"


def test_classify_suite_probe_magnitudes(tmp_path, monkeypatch):
    monkeypatch.setattr(classify, "RAY_POINTS", (100, 1000, 10000))
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("gamma_single_type"), "--suite", "classify",
                 "--out", out])
    assert code == 0
    assert read_report(out)["results"]["classification"]["probe_sizes"] == [100.0, 1000.0, 10000.0]


def test_classify_suite_probes_emigration_past_the_enumeration_limit(tmp_path, capsys,
                                                                     monkeypatch):
    # uniform emigration has one atom per removal size, 10^12 of them at this
    # probe; classify reads its closed-form moments instead
    monkeypatch.setattr(classify, "RAY_POINTS", (10, 1e12))
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("two_type_mixed"), "--suite", "classify",
                 "--out", out])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert read_report(out)["results"]["classification"]["verdict"] == "no-growth"


@pytest.mark.parametrize("doc_name", ["two_type_mixed", "pure_emigration"])
def test_classify_suite_at_large_probe_magnitudes(tmp_path, monkeypatch, doc_name):
    monkeypatch.setattr(classify, "RAY_POINTS", (1e3, 1e5, 1e7, 1e9))
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path(doc_name), "--suite", "classify",
                 "--out", out])
    assert code == 0
    classification = read_report(out)["results"]["classification"]
    assert classification["verdict"] == "no-growth"
    assert classification["probe_sizes"] == pytest.approx([1e3, 1e5, 1e7, 1e9], rel=1e-3)


def test_gamma_suite_small_scale(tmp_path):
    out = str(tmp_path / "rep")
    args = ["--spec", spec_path("gamma_single_type"), "--suite", "gamma-limit",
            "--n", "60", "--reps", "150", "--seed", "11", "--out", out]
    assert main(args + ["--threshold-ks", "0.5"]) == 0
    report = read_report(out)
    assert report["results"]["limit_params"]["gamma_shape"] == pytest.approx(4.0)
    assert report["results"]["conditioning"]["kept"] <= 150
    assert os.path.exists(os.path.join(out, "cdf_pairs.tsv"))


def test_cdf_pairs_reference_equals_per_point_values():
    sample = np.random.default_rng(3).gamma(4.0, 0.5, size=500)
    xs = sorted(sample.tolist())
    config = cli.ExperimentConfig("doc.json", "gamma-limit", threshold_ks=1.0)
    head = np.sort(sample[:100])  # its right-continuous step function is one reference
    for cdf in (lambda x: gamma_cdf(x, 4.0, 0.5), normal_cdf,
                lambda x: np.searchsorted(head, x, side="right") / head.size):
        _, _, files = _ks_check(sample, config, cdf, "reference", {})
        header, (x, emp, ref) = files["cdf_pairs.tsv"]
        assert header == ("x", "empirical", "reference")
        assert x.tolist() == xs
        assert emp.tolist() == [(i + 1) / len(xs) for i in range(len(xs))]
        assert ref.tolist() == [float(cdf(x)) for x in xs]


def _per_cell_tsv(header, columns):
    """Row-wise reference rendering: float cells as %.10g, other cells as str()."""
    rows = ["\t".join(header)] + [
        "\t".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
        for row in zip(*columns, strict=True)
    ]
    return "".join(line + "\n" for line in rows)


# every n <= 2000; exact binary ties at n = 2^k and 3·2^k, which the window
# sends to the double, where %.10g rounds half to even; 5·2^k, whose ties are
# inexact doubles on either side; 5^k; sizes around the replicates-wide
# R = 10^4; and n = 999999, above 4.5e5, where a row one unit from a tie,
# 2·rem - n = ±1, rounds by its double
RANK_SIZES = [*range(1, 2001), *(2**e for e in range(11, 21)), *(3 * 2**e for e in range(1, 16)),
              *(5 * 2**e for e in range(11, 15)), *(5**e for e in range(1, 8)),
              10**4 - 3, 10**4 + 3, 10**5, 999_999, 10**6]


def test_rank_cells_are_the_printf_texts_of_i_over_n():
    for n in RANK_SIZES:
        expected = [b"\t%.10g" % x for x in (np.arange(1, n + 1) / n).tolist()]
        assert _rank_cells(n, b"\t").tolist() == expected, n


def test_write_tsv_matches_per_cell_formatting(tmp_path):
    # one kind of cell per column: floats (Python or float64), everything else labels
    py_floats = [0.1 + 0.2, float("nan"), float("inf"), -float("inf"), 1e-300, 2.5, -7.5e-8,
                 1e22, -0.0, 1e-5, 1e-4, 9999999999.5, 1e10, 9999999999.0]
    k = len(py_floats)
    columns = [
        [f"mean[{i}]" for i in range(k - 1)] + ["σ²·Zₙ/n"],
        py_floats,
        np.array([np.float64(6.02214076e23), np.float64(-0.0), np.nan, np.inf, -np.inf,
                  np.float64(1.0 / 3.0), 1e-5, 1e-4, 9999999999.5, 1e10, 0.0, 1.0, -1.0, 1e22]),
        [3, np.int64(7), 12345678901, 0, -4] * 2 + [np.int64(-1), 1, 2, 5],
        [True, False] * (k // 2),
        [np.float32(0.1), np.float32(2.5), np.float32(-0.0), np.float32(1e22)] * 3
        + [np.float32(np.nan), np.float32(np.inf)],
    ]
    header = ("label", "float", "float64", "int", "bool", "float32")
    path = tmp_path / "mixed.tsv"
    _write_tsv(path, header, columns)
    assert path.read_bytes() == _per_cell_tsv(header, columns).encode("utf-8")
    # float64 columns with heavy ties, -0.0 beside 0.0, NaN and +-inf, sorted or not
    lattice = np.random.default_rng(8).integers(-10, 50, size=10_000) / 8.0
    lattice[:40] = [-0.0, 0.0, np.nan, np.inf, -np.inf] * 8
    columns = [np.sort(lattice), lattice, np.arange(1, lattice.size + 1) / lattice.size,
               np.repeat(np.array([1 / 3, -0.0, 0.0, 1e22]), 2500), ["x"] * lattice.size]
    header = ("sorted", "shuffled", "distinct", "blocks", "label")
    _write_tsv(path, header, columns)
    assert path.read_bytes() == _per_cell_tsv(header, columns).encode("utf-8")
    # a zero-row table is its header alone
    empty = [[], np.array([]), np.array([], dtype=np.int64), []]
    _write_tsv(path, ("a", "b", "c", "d"), empty)
    assert path.read_bytes() == b"a\tb\tc\td\n"


_SUITE_TABLES = {
    "moments": {"moment_bands.tsv"},
    "classify": {"ratio_curve.tsv"},
    "gamma-limit": {"cdf_pairs.tsv"},
    "normal-limit": {"cdf_pairs.tsv"},
    "l1-limit": {"sample_summary.tsv"},
    "feller": {"cdf_pairs.tsv", "quantile_fan.tsv"},
    "explosion": {"terminal_norms.tsv"},
}


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_tables_match_the_row_wise_reference(tmp_path, monkeypatch, suite):
    written, distinct = set(), []

    def checked(path, header, columns):
        _write_tsv(path, header, columns)
        assert path.read_bytes() == _per_cell_tsv(header, columns).encode("utf-8")
        written.add(path.name)
        if path.name == "cdf_pairs.tsv":
            distinct.append((np.unique(columns[0]).size, len(columns[0])))

    monkeypatch.setattr(cli, "_write_tsv", checked)
    sizes = [("--n", "20", "--reps", "200")]
    if suite in ("gamma-limit", "normal-limit"):
        sizes.append(("--n", "8", "--reps", "5000"))  # lattice samples, heavy ties
    for k, size in enumerate(sizes):
        distinct.clear()
        for doc_name in SHIPPED:
            code = main(["--spec", spec_path(doc_name), "--suite", suite, *size,
                         "--seed", "3", "--threshold-ks", "0.5",
                         "--out", str(tmp_path / f"{doc_name}-{k}")])
            assert code in (0, 1, 2)
        if k:
            assert any(10 * d < rows for d, rows in distinct)
    assert written == _SUITE_TABLES[suite]


def test_limit_suites_call_reference_cdf_once(tmp_path, monkeypatch):
    calls = []
    for name in ("gamma_cdf", "normal_cdf"):
        def counted(*args, _f=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    assert main(["--spec", spec_path("gamma_single_type"), "--suite", "gamma-limit",
                 "--n", "20", "--reps", "300", "--seed", "5", "--out", str(tmp_path / "g"),
                 "--threshold-ks", "0.9"]) == 0
    assert calls == ["gamma_cdf"]
    calls.clear()
    assert main(["--spec", spec_path("sqrt_drift_single_type"), "--suite", "normal-limit",
                 "--n", "20", "--reps", "300", "--seed", "5", "--out", str(tmp_path / "n"),
                 "--threshold-ks", "0.9"]) == 0
    assert calls == ["normal_cdf"]


def test_gamma_suite_forced_failure(tmp_path, capsys):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("gamma_single_type"), "--suite",
                 "gamma-limit", "--n", "60", "--reps", "150", "--seed", "11",
                 "--out", out, "--threshold-ks", "0.0001"])
    assert code == 1
    assert "gamma-limit: FAIL" in capsys.readouterr().out
    assert read_report(out)["passed"] is False


@pytest.mark.parametrize("suite, doc_name, n, seed, table, rows", [
    ("gamma-limit", "gamma_single_type", 1, 2, "cdf_pairs.tsv", []),
    ("normal-limit", "sqrt_drift_single_type", 2, 25, "cdf_pairs.tsv", []),
    ("l1-limit", "sqrt_drift_single_type", 2, 25, "sample_summary.tsv",
     [f"q{q}\tnan" for q in (5, 25, 50, 75, 95)] + ["mean\tnan", "target\t0.25"]),
], ids=["gamma-limit", "normal-limit", "l1-limit"])
def test_limit_suite_keeping_no_replicate_fails(tmp_path, capsys, suite, doc_name, n, seed, table,
                                                rows):
    # one replicate that dies out: the conditioning keeps none, and the gate
    # fails; each seed is the smallest at which the replicate is dropped
    out = tmp_path / "rep"
    code = main(["--spec", spec_path(doc_name), "--suite", suite, "--n", str(n), "--reps", "1",
                 "--seed", str(seed), "--out", str(out)])
    assert code == 1
    assert f"{suite}: FAIL" in capsys.readouterr().out
    report = read_report(out)
    assert report["passed"] is False
    assert report["results"]["conditioning"]["kept"] == 0
    if suite == "l1-limit":
        assert report["results"]["sample_mean"] == "nan"
    else:
        assert report["results"]["gof"]["value"] == "nan"
        assert report["results"]["gof"]["sample_size"] == 0
    header = {"cdf_pairs.tsv": "x\tempirical\treference", "sample_summary.tsv": "statistic\tvalue"}
    assert (out / table).read_text() == "".join(f"{line}\n" for line in [header[table], *rows])


def _no_ensemble(*args, **kwargs):
    raise AssertionError("an ensemble was drawn for a suite that refuses the model")


def _as_shipped(doc):
    pass


# The law edits below change the growth constants, so the shipped limit
# block, which asserts the unedited ones, goes with them.
def _starved_immigration(doc):
    # u.c = 0.2 * 1.25 = 0.25 < nu / 2 = 0.5
    doc["migration"][0]["prob_imm"] = {"kind": "constant", "value": 0.2}
    doc["migration"][0]["immigration"]["mean"]["value"] = 1.25
    del doc["limit"]


def _immigration_power(exponent):
    def edit(doc):
        doc["migration"][0]["immigration"]["mean"]["inner"]["exponent"] = exponent
        del doc["limit"]

    return edit


def _no_immigration(doc):
    doc["migration"][0]["prob_imm"]["value"] = 0.0


def _one_child_each(doc):
    doc["offspring"][0]["components"][0] = {"family": "deterministic", "value": 1}


@pytest.mark.parametrize("suite, doc_name, n, edit, message", [
    # nu >= 2 u.c: unbounded growth is a null event
    ("gamma-limit", "gamma_single_type", 20, _starved_immigration,
     "gamma-limit is infeasible for this model: it needs variance exponent beta = 1 + alpha"),
    # an immigration mean linear in the size: no first-order growth constant exists
    ("l1-limit", "sqrt_drift_single_type", 20, _immigration_power(1.0),
     "l1-limit is infeasible for this model: alpha must be < 1"),
    # alpha = 3/4 and beta = 1 < 3 alpha - 1: no fluctuation scale Lambda_n
    ("normal-limit", "sqrt_drift_single_type", 20, _immigration_power(0.75),
     "normal-limit is infeasible for this model: beta must lie in [3 alpha - 1, alpha + 1]"),
    # the scale n^{1/(1-alpha)} of both size-scaled laws is 0 at n = 0
    ("gamma-limit", "gamma_single_type", 0, _as_shipped,
     "gamma-limit is infeasible for this model: n must be >= 1\n"),
    ("l1-limit", "sqrt_drift_single_type", 0, _as_shipped,
     "l1-limit is infeasible for this model: n must be >= 1\n"),
    # feller rescales the endpoint by n
    ("feller", "gamma_single_type", 0, _as_shipped,
     "feller is infeasible for this model: n must be >= 1\n"),
    # without drift the diffusion limit started at 0 stays at 0
    ("feller", "gamma_single_type", 20, _no_immigration,
     "feller is infeasible for this model: it needs drift > 0 "
     "(a limit started at 0 without drift stays at 0)\n"),
    # offspring without variance: the limit is the deterministic line drift * t
    ("feller", "gamma_single_type", 20, _one_child_each,
     "feller is infeasible for this model: it needs diffusion > 0 "
     "(otherwise the limit is degenerate)\n"),
], ids=["gamma-limit", "l1-limit", "normal-limit", "gamma-limit-n0", "l1-limit-n0",
        "feller-n0", "feller-zero-drift", "feller-zero-diffusion"])
def test_limit_suite_infeasible_regime(tmp_path, capsys, monkeypatch, suite, doc_name, n, edit,
                                       message):
    doc = json.load(open(spec_path(doc_name)))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "run_ensemble", _no_ensemble)
    code = main(["--spec", str(bad), "--suite", suite,
                 "--n", str(n), "--reps", "50", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _nothing_runs(*args, **kwargs):
    raise AssertionError("a suite ran on a document whose extras are malformed")


@pytest.mark.parametrize("suite, doc_name, key, value, message", [
    ("gamma-limit", "gamma_single_type", "limit", [1, 2], "limit: expected a mapping, got list"),
    # a misspelt key would otherwise assert nothing
    ("gamma-limit", "gamma_single_type", "limit", {"alpah": 0.0, "c": [2.0], "nu": 1.0},
     "limit.alpah: unknown field (the block takes alpha, c, nu and beta)"),
    ("gamma-limit", "gamma_single_type", "limit", {"alpha": 0.0, "c": [2.0], "delta": 1.0},
     "limit.delta: unknown field (the block takes alpha, c, nu and beta)"),
    ("l1-limit", "sqrt_drift_single_type", "limit", {"alpha": "x", "c": [1.0], "nu": 1.0},
     "limit.alpha: expected a finite number, got 'x'"),
    ("normal-limit", "sqrt_drift_single_type", "limit", {"alpha": 0.5, "c": [1.0, 1.0]},
     "limit.c: expected a list of 1 numbers, got [1.0, 1.0]"),
    ("l1-limit", "sqrt_drift_single_type", "limit", {"c": [True]},
     "limit.c[0]: expected a finite number, got True"),
    # well formed, but not what the laws give: the suite would gate against a wrong law
    ("gamma-limit", "gamma_single_type", "limit",
     {"alpha": 0.0, "beta": 1.0, "c": [3.0], "nu": 1.0},
     "limit.c: the laws give [2.0], not [3.0]"),
    ("normal-limit", "sqrt_drift_single_type", "limit", {"nu": 1.0 + 1e-11},
     "limit.nu: the laws give 1.0, not 1.00000000001"),
    ("explosion", "pure_death", "explosion_bounds", [1],
     "explosion_bounds: expected a list of 2 numbers, got [1]"),
    ("explosion", "pure_death", "explosion_bounds", "ab",
     "explosion_bounds: expected a list of 2 numbers, got 'ab'"),
    ("explosion", "pure_death", "explosion_bounds", [0.5, 0.25],
     "explosion_bounds: lower bound 0.5 exceeds upper bound 0.25"),
    ("moments", "small_support", "reference_state", "ab",
     "reference_state: expected a list of counts, got 'ab'"),
    ("moments", "small_support", "reference_state", [-3, 1],
     "reference_state: counts must be nonnegative, got [-3, 1]"),
    ("moments", "small_support", "reference_state", [2.5, 1],
     "reference_state[0]: expected an integer, got 2.5"),
    ("classify", "two_type_mixed", "expected_verdict", "no growth",
     "expected_verdict: expected one of no-growth, growth-possible, inconclusive, "
     "got 'no growth'"),
], ids=["limit-list", "limit-misspelt-key", "limit-retired-key", "limit-alpha-string",
        "limit-c-length", "limit-c-bool", "limit-c-wrong", "limit-nu-off", "bounds-short",
        "bounds-string", "bounds-inverted", "state-string", "state-negative", "state-fraction", "verdict-unknown"])
def test_malformed_document_extras_exit_two(tmp_path, capsys, monkeypatch, suite, doc_name, key,
                                            value, message):
    doc = json.load(open(spec_path(doc_name)))
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for name in ("run_ensemble", "moment_check", "classify_growth"):
        monkeypatch.setattr(cli, name, _nothing_runs)
    code = main(["--spec", str(bad), "--suite", suite,
                 "--n", "20", "--reps", "50", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rep").exists()


_PAST_INT64 = 2**70


def _set(path, value):
    """An edit of a document: the value at path (keys and indices) set to value."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit, argv, message", [
    (_set(("initial", "state"), [1e30, 1]), [],
     "initial.state[0]: expected an integer within int64, got 1e+30"),
    (_set(("initial", "state"), [2**63, 1]), [],
     "initial.state[0]: expected an integer within int64, got 9223372036854775808"),
    (_set(("migration", 1, "immigration"), {"family": "deterministic", "value": 1e30}), [],
     "migration[1].immigration.value: expected an integer within int64, got 1e+30"),
    (_set(("migration", 1, "immigration"), {"family": "table", "values": [1e30], "probs": [1]}),
     [], "migration[1].immigration.values[0]: expected an integer within int64, got 1e+30"),
    (_set(("offspring", 0, "components", 0),
          {"family": "table", "values": [0, _PAST_INT64], "probs": [0.5, 0.5]}), [],
     f"offspring[0].components[0].values[1]: expected an integer within int64, got {_PAST_INT64}"),
    (_set(("initial",), {"kind": "table", "states": [[_PAST_INT64, 1]], "probs": [1]}), [],
     f"initial.states[0][0]: expected an integer within int64, got {_PAST_INT64}"),
    (_set(("reference_state",), [_PAST_INT64, 1]), [],
     f"reference_state[0]: expected an integer within int64, got {_PAST_INT64}"),
    (_set(("reference_state",), [50, 30]), ["--state", f"{_PAST_INT64},1"],
     f"--state[0]: expected an integer within int64, got {_PAST_INT64}"),
], ids=["initial-state-float", "initial-state-2^63", "deterministic-immigration",
        "table-immigration", "table-offspring", "table-initial", "reference-state", "state-option"])
def test_integers_past_int64_exit_two(tmp_path, capsys, monkeypatch, edit, argv, message):
    # one reader takes every integer field, and refuses what int64 cannot hold
    doc = json.load(open(spec_path("two_type_mixed")))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "moment_check", _nothing_runs)
    code = main(["--spec", str(bad), "--suite", "moments", *argv, "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "rep").exists()


_LIMIT_PARAM_KEYS = {"alpha", "c", "c_dot_u", "beta", "nu", "delta", "delta1", "delta2",
                     "alpha_tilde", "gamma_shape", "gamma_scale", "l1_constant", "feller_drift",
                     "feller_diffusion"}


@pytest.mark.parametrize("suite, doc_name, gamma, l1, feller", [
    ("gamma-limit", "gamma_single_type", (4.0, 0.5), 2.0, (2.0, 1.0)),
    ("l1-limit", "sqrt_drift_single_type", (None, None), 0.25, (None, None)),
], ids=["gamma", "sqrt-drift"])
def test_report_limit_params_block(tmp_path, suite, doc_name, gamma, l1, feller):
    out = str(tmp_path / "rep")
    assert main(["--spec", spec_path(doc_name), "--suite", suite, "--n", "20", "--reps", "50",
                 "--seed", "3", "--out", out]) in (0, 1)
    params = read_report(out)["results"]["limit_params"]
    assert set(params) == _LIMIT_PARAM_KEYS
    calibrated = json.load(open(spec_path(doc_name)))["limit"]
    assert {key: params[key] for key in calibrated} == calibrated
    assert (params["gamma_shape"], params["gamma_scale"]) == gamma
    assert params["l1_constant"] == l1
    assert (params["feller_drift"], params["feller_diffusion"]) == feller
    assert (params["delta"], params["alpha_tilde"]) == (1.0, 2.0)
    assert params["delta1"] is None and params["delta2"] is None  # kept as report keys


def test_limit_block_within_the_tolerance_passes(tmp_path):
    doc = json.load(open(spec_path("sqrt_drift_single_type")))
    doc["limit"]["nu"] = 1.0 + 1e-13
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "rep")
    assert main(["--spec", str(path), "--suite", "l1-limit", "--n", "20", "--reps", "50",
                 "--out", out]) in (0, 1)
    assert read_report(out)["results"]["limit_params"]["nu"] == 1.0  # the derived value


# the (suite, document) pairs of the shipped documents that exit 2
_INFEASIBLE_LIMITS = {
    ("gamma-limit", doc) for doc in ("pure_death", "pure_emigration", "small_support",
                                     "sqrt_drift_single_type", "two_type_mixed")
} | {
    (suite, doc) for suite in ("normal-limit", "l1-limit")
    for doc in ("pure_death", "pure_emigration", "small_support", "two_type_mixed")
}


@pytest.mark.parametrize("doc_name", SHIPPED)
@pytest.mark.parametrize("suite", ["gamma-limit", "normal-limit", "l1-limit"])
def test_limit_suites_refuse_exactly_the_infeasible_documents(tmp_path, capsys, suite,
                                                              doc_name):
    out = tmp_path / "rep"
    code = main(["--spec", spec_path(doc_name), "--suite", suite,
                 "--n", "20", "--reps", "300", "--out", str(out)])
    err = capsys.readouterr().err
    if (suite, doc_name) in _INFEASIBLE_LIMITS:
        assert code == 2
        assert err.startswith(f"error: {suite} is infeasible for this model: ")
    else:
        assert code in (0, 1)
        assert read_report(out)["results"]["conditioning"]["total"] == 300


# specs/two_type_coupled.json: two types with Poisson offspring of mean
# columns (0.7, 0.3) and (0.4, 0.6), so u = (1/2, 1/2), u.u = 1/2 and
# v = (8/7, 6/7); type 0 always receives 1 + Poisson(1) immigrants (mean 2),
# type 1 never migrates; started at 0.  Then h = (2, 0), u.c = 1, alpha = 0,
# beta = 1 and nu = 1/2: the gamma regime.


def test_limit_transforms_read_the_weighted_size_itself():
    # a_n tracks u.Z_n with u.v = 1, so no transform divides by u.u = 1/2
    spec = load_spec(spec_path("two_type_coupled"))
    spectral = spec.spectral()
    assert (float(spectral.u @ spectral.u), float(spectral.u @ spectral.v)) == pytest.approx(
        (0.5, 1.0), rel=1e-12)
    params = params_from_spec(spec)
    assert (params.alpha, params.c_dot_u, params.beta) == (0.0, 1.0, 1.0)
    assert params.nu == pytest.approx(0.5, rel=1e-12)
    n, w = 50, np.array([0.5, 12.0, 51.0, 260.0])
    a_n = float(a_seq(params.c_dot_u, params.alpha, n)[-1])
    assert a_n == 1.0 + n
    scale = n ** (1.0 / (1.0 - params.alpha))
    hand = {
        "gamma-limit": (w / scale) ** (1.0 - params.alpha),
        "normal-limit": (w - a_n) / lambda_n(params, n),
        "l1-limit": w / scale,
    }
    for suite, expected in hand.items():
        transform, _, _ = cli._LIMIT_LAWS[suite](params, n, a_n)
        np.testing.assert_allclose(transform(w), expected, rtol=1e-15, atol=0)


def test_weighted_mean_grows_by_u_dot_c_each_step():
    # h is constant here, so the exact conditional mean z -> m (z + h) is
    # affine; read it off cond_mean at 0 and at the unit states and iterate
    # it from Z_0 = 0: E u.Z_n = n u.c
    spec = load_spec(spec_path("two_type_coupled"))
    u = spec.spectral().u
    shift = cond_mean(spec, [0, 0])
    m = np.column_stack([cond_mean(spec, e) - shift for e in np.eye(2, dtype=np.int64)])
    np.testing.assert_allclose(m, spec.mean_matrix(), rtol=0, atol=1e-15)
    c_dot_u = params_from_spec(spec).c_dot_u
    mean = np.zeros(2)
    for n in range(1, 201):
        mean = m @ mean + shift
        assert float(u @ mean) == pytest.approx(n * c_dot_u, rel=1e-12)


@pytest.mark.parametrize("suite", ["gamma-limit", "l1-limit"])
def test_limit_suites_pass_on_a_document_with_u_dot_u_below_one(tmp_path, suite):
    # the transforms divided by u.u = 1/2 once, which doubled every sample
    out = tmp_path / "rep"
    assert main(["--spec", spec_path("two_type_coupled"), "--suite", suite, "--n", "100",
                 "--reps", "2000", "--seed", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("suite", ["gamma-limit", "normal-limit", "l1-limit"])
def test_limit_suites_refuse_a_supercritical_mean_matrix(tmp_path, capsys, suite):
    # small_support's mean matrix has rho = 1.227
    code = main(["--spec", spec_path("small_support"), "--suite", suite,
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {suite} is infeasible for this model: "
        "the limit law requires a critical mean matrix")


@pytest.mark.parametrize("suite, option, value, message", [
    ("explosion", "--reps", "0", "argument --reps: must be >= 1, got 0"),
    ("classify", "--probe-magnitudes", "1e3,1e4",
     "unrecognized arguments: --probe-magnitudes 1e3,1e4"),
    ("explosion", "--explosion-k", "-1", "argument --explosion-k: must be >= 0, got -1"),
    ("explosion", "--n", "-3", "argument --n: must be >= 0, got -3"),
    ("explosion", "--workers", "0", "argument --workers: must be >= 1, got 0"),
    ("explosion", "--workers", "-3", "argument --workers: must be >= 1, got -3"),
    ("explosion", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("classify", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
    ("moments", "--seed", str(2**64),
     f"argument --seed: must be < {2**64}, got {2**64}"),
    ("gamma-limit", "--threshold-ks", "-1", "argument --threshold-ks: must be >= 0, got -1"),
    ("gamma-limit", "--threshold-ks", "nan", "argument --threshold-ks: must be >= 0, got nan"),
    ("l1-limit", "--threshold-rel", "-0.1",
     "argument --threshold-rel: must be >= 0, got -0.1"),
    ("l1-limit", "--threshold-rel", "nan", "argument --threshold-rel: must be >= 0, got nan"),
    ("gamma-limit", "--threshold-ks", "1", "argument --threshold-ks: must be < 1, got 1"),
    ("gamma-limit", "--threshold-ks", "inf", "argument --threshold-ks: must be < 1, got inf"),
    ("l1-limit", "--threshold-rel", "inf", "argument --threshold-rel: must be < inf, got inf"),
    ("moments", "--state", "a,b", "argument --state: invalid int value: 'a,b'"),
], ids=["reps-0", "probe-magnitudes-unrecognized", "negative-explosion-k", "negative-n",
        "workers-0", "negative-workers", "seed-negative", "classify-seed-negative", "seed-2**64",
        "negative-threshold-ks", "threshold-ks-nan", "negative-threshold-rel",
        "threshold-rel-nan", "threshold-ks-1", "threshold-ks-inf", "threshold-rel-inf",
        "state-not-ints"])
def test_invalid_option_values_are_usage_errors(tmp_path, capsys, monkeypatch, suite, option,
                                                value, message):
    monkeypatch.setattr(cli, "run_ensemble", _no_ensemble)
    with pytest.raises(SystemExit) as exc:
        main(["--spec", spec_path("gamma_single_type"), "--suite", suite, option, value,
              "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_state_of_the_wrong_length_names_the_option(tmp_path, capsys):
    code = main(["--spec", spec_path("gamma_single_type"), "--suite", "moments",
                 "--state", "1,2", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == "error: --state: expected 1 components\n"


def test_parser_defaults_are_the_config_defaults():
    parser = cli.build_parser()
    defaults = {a.dest: a.default for a in parser._actions if a.dest != "help"}
    fields = {f.name: f.default for f in dataclasses.fields(cli.ExperimentConfig)}
    assert defaults.keys() == fields.keys()
    for name in ("spec_path", "suite"):
        assert defaults.pop(name) is None and fields.pop(name) is dataclasses.MISSING
    assert defaults == fields
    args = parser.parse_args(["--spec", "doc.json", "--suite", "moments"])
    assert cli.ExperimentConfig(**vars(args)) == cli.ExperimentConfig("doc.json", "moments")


def test_feller_suite_rejects_divergent_migration(tmp_path, capsys):
    code = main(["--spec", spec_path("two_type_mixed"), "--suite", "feller",
                 "--n", "20", "--reps", "50", "--out", str(tmp_path / "rep")])
    assert code == 2
    err = capsys.readouterr().err
    assert "feller is infeasible for this model: migration parameters do not converge" in err


def test_other_errors_are_not_reported_as_bad_input(tmp_path):
    # a malformed worker count is not a malformed document: it surfaces as itself
    proc = run_fresh(
        ["-m", "mbpm.cli", "--spec", spec_path("pure_emigration"),
         "--suite", "explosion", "--n", "5", "--reps", "10", "--out", str(tmp_path / "rep")],
        env={"MBPM_WORKERS": "abc"}, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert "ValueError: invalid literal for int() with base 10: 'abc'" in proc.stderr


def test_normal_suite_small_scale(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("sqrt_drift_single_type"), "--suite",
                 "normal-limit", "--n", "80", "--reps", "100", "--seed", "13",
                 "--out", out, "--threshold-ks", "0.6"])
    assert code == 0
    report = read_report(out)
    assert report["results"]["lambda_n"] > 0
    assert report["thresholds"]["ks"] == 0.6


def test_l1_suite_small_scale(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("sqrt_drift_single_type"), "--suite",
                 "l1-limit", "--n", "80", "--reps", "100", "--seed", "17",
                 "--out", out, "--threshold-rel", "0.5"])
    assert code == 0
    report = read_report(out)
    assert report["results"]["target"] == pytest.approx(0.25)
    assert report["results"]["relative_error"] < 0.5


def test_feller_suite_small_scale(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("gamma_single_type"), "--suite", "feller",
                 "--n", "100", "--reps", "200", "--seed", "19", "--out", out,
                 "--threshold-ks", "0.5"])
    assert code == 0
    report = read_report(out)
    assert report["results"]["drift"] == pytest.approx(2.0)
    assert report["results"]["diffusion"] == pytest.approx(1.0)
    # the reference is the limit's exact law at t = 1, Gamma(2 drift / diffusion, diffusion / 2)
    gof = report["results"]["gof"]
    assert (gof["reference"], gof["params"]) == ("gamma", {"shape": 4.0, "scale": 0.5})
    x, _, reference = np.loadtxt(os.path.join(out, "cdf_pairs.tsv"), skiprows=1).T
    assert x.size == 200 and np.all(np.diff(x) >= 0)
    np.testing.assert_allclose(reference, gamma_cdf(x, 4.0, 0.5), rtol=1e-9, atol=0)
    recomputed = gof_report(x, lambda v: gamma_cdf(v, 4.0, 0.5), "gamma", {}, threshold=1.0)
    assert gof["value"] == pytest.approx(recomputed.value)
    # the fan's reference quantiles at time t are t times those at t = 1
    fan = np.loadtxt(os.path.join(out, "quantile_fan.tsv"), skiprows=1)
    ppf = scipy.stats.gamma.ppf([0.05, 0.25, 0.5, 0.75, 0.95], 4.0, scale=0.5)
    np.testing.assert_allclose(fan[:, 6:], np.outer(fan[:, 0], ppf), rtol=1e-9, atol=0)


def test_feller_fan_reads_step_floor_of_n_t(tmp_path):
    # 0.29 * 100 is 28.999999999999996 in floating point; the row reads Z_29
    out = str(tmp_path / "rep")
    main(["--spec", spec_path("gamma_single_type"), "--suite", "feller", "--n", "100",
          "--reps", "60", "--seed", "23", "--out", out])
    fan = np.loadtxt(os.path.join(out, "quantile_fan.tsv"), skiprows=1)
    spec = load_spec(spec_path("gamma_single_type"))
    ens = run_ensemble(spec, 100, 60, 23, steps=range(101))
    w = ens.states[:, 29] @ spec.spectral().u / 100
    assert fan[29, 0] == 0.29
    want = np.quantile(w, [0.05, 0.25, 0.5, 0.75, 0.95])
    np.testing.assert_allclose(fan[29, 1:6], want, rtol=1e-9, atol=0)


def test_feller_suite_memory_does_not_grow_with_the_horizon(tmp_path):
    # the ensemble keeps the fan's 101 steps, not all n + 1 of them
    args = ["--spec", spec_path("gamma_single_type"), "--suite", "feller", "--n", "2000",
            "--reps", "500", "--seed", "3"]
    main(args + ["--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        main(args + ["--out", str(tmp_path / "rep")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_feller_suite_has_no_integrator_step_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--spec", spec_path("gamma_single_type"), "--suite", "feller", "--dt", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dt 0.01" in capsys.readouterr().err


def test_explosion_suite(tmp_path):
    out = str(tmp_path / "rep")
    code = main(["--spec", spec_path("pure_emigration"), "--suite", "explosion",
                 "--n", "60", "--reps", "200", "--seed", "23", "--out", out])
    assert code == 0
    report = read_report(out)
    assert report["results"]["explosion"]["value"] == 0.0
    assert os.path.exists(os.path.join(out, "terminal_norms.tsv"))


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["--spec", str(tmp_path / "ghost.json"), "--suite", "moments",
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# A misspelt extra would otherwise be ignored, and its gate with it: both
# documents pass with the key misspelt and fail with it spelt right.
@pytest.mark.parametrize("suite, doc_name, key, value", [
    ("classify", "two_type_mixed", "expected_verdic", "growth-possible"),
    ("explosion", "pure_death", "explosion_bound", [0.5, 1.0]),
], ids=["expected-verdict", "explosion-bounds"])
def test_unknown_top_level_field_exits_two(tmp_path, capsys, suite, doc_name, key, value):
    doc = json.load(open(spec_path(doc_name)))
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--spec", str(bad), "--suite", suite, "--n", "20", "--reps", "50",
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {key}: unknown field\n"
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("suite", ["moments", "explosion"])
def test_non_finite_literal_exits_two(tmp_path, capsys, suite):
    doc = json.load(open(spec_path("small_support")))
    doc["migration"][0]["immigration"]["probs"] = [math.nan, 1.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # a NaN literal, which JSON itself does not have
    assert "[NaN, 1.0]" in bad.read_text()
    code = main(["--spec", str(bad), "--suite", suite, "--n", "20", "--reps", "50",
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == "error: document: expected a finite number, got nan\n"
    assert not (tmp_path / "rep").exists()


def test_malformed_document_names_field(tmp_path, capsys):
    doc = json.load(open(spec_path("gamma_single_type")))
    del doc["migration"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--spec", str(bad), "--suite", "moments",
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert "migration" in capsys.readouterr().err


@pytest.mark.parametrize("doc_name, key, value, message", [
    ("gamma_single_type", "offspring", [], "offspring: offspring spec needs at least one type"),
    ("two_type_mixed", "offspring", [{"kind": "independent", "components": [
        {"family": "poisson", "mean": 1.0}]}] * 2,
     "offspring: offspring law for type 0 produces 1-vectors in a 2-type model"),
    ("gamma_single_type", "dim", 7, "dim: 7 does not match the 1 per-type offspring laws"),
], ids=["no-offspring", "short-offspring-law", "dim-mismatch"])
def test_type_count_errors_exit_two(tmp_path, capsys, doc_name, key, value, message):
    doc = json.load(open(spec_path(doc_name)))
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--spec", str(bad), "--suite", "classify", "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["--spec", spec_path("gamma_single_type"), "--suite", "bogus"])


def test_reports_reproducible_up_to_timestamp(tmp_path):
    args = ["--spec", spec_path("gamma_single_type"), "--suite", "gamma-limit",
            "--n", "50", "--reps", "120", "--seed", "29",
            "--threshold-ks", "0.9"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0
    lines_a = open(os.path.join(out_a, "report.json")).read().splitlines()
    lines_b = open(os.path.join(out_b, "report.json")).read().splitlines()
    diff = [
        (a, b)
        for a, b in zip(lines_a, lines_b)
        if a != b
    ]
    assert len(lines_a) == len(lines_b)
    assert all("timestamp" in a for a, _ in diff)
    for name in ["cdf_pairs.tsv"]:
        assert (open(os.path.join(out_a, name)).read()
                == open(os.path.join(out_b, name)).read())


def test_workers_flag_does_not_change_results(tmp_path):
    base = ["--spec", spec_path("gamma_single_type"), "--suite", "gamma-limit",
            "--n", "40", "--reps", "60", "--seed", "31", "--threshold-ks", "0.9"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(base + ["--out", out_a, "--workers", "1"]) == 0
    assert main(base + ["--out", out_b, "--workers", "3"]) == 0
    rep_a, rep_b = read_report(out_a), read_report(out_b)
    assert rep_a["results"]["gof"]["value"] == rep_b["results"]["gof"]["value"]
