"""Benchmark of the ``mbpm`` command line suites, end to end and per layer.

    python3 bench/run.py --workload paths-long --seed 1 --seconds 20 --trace 0

Run from the repository root (no install needed: ``src`` goes on the path).
The workload's ops (see workloads.py) run in a closed loop in this process,
one ``mbpm.cli.main`` call after another, with one worker and BLAS pinned
to one thread.  A round runs every op once; rounds repeat with the same op
seeds until ``--seconds`` are spent.  Every op's outputs are checked
independently (checks.py) and must be identical in every round.

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
processes importing mbpm and loading the workload's documents), wall_s
(median round time after a warm-up round, scaled to a reference host
speed by hostspeed.py), peak_rss_mb; failed ops are counted in the result.
--trace 1 runs the round untraced, then traced twice or more at the same
seeds (tracer.py), checks that outputs and counts repeat exactly, and
reports the per-layer metrics of one round.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_SETUP_REPEATS = 9

# Microseconds per replicate-step of simulate_path at the ROADMAP baseline
# (2-core box, Python 3.11.7, numpy 2.4.6).
_BASELINE_US = {"gamma_single_type": 10.3, "sqrt_drift_single_type": 15.6,
                "two_type_mixed": 18.2}

# A fresh interpreter that imports mbpm and loads (validates) documents
# under the host-speed probe, then says so with the probe's speed factor
# and time: the parent times it from spawn to the reply.
_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from hostspeed import HostSpeed
with HostSpeed("interpreter") as speed:
    sys.path.insert(0, sys.argv[2])
    from mbpm import load_spec
    for path in sys.argv[3:]:
        load_spec(path)
print("ready", speed.factor(), speed.probe_s(), flush=True)
"""


def _pin_environment():
    for var in _BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("MBPM_WORKERS", None)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure_setup(spec_paths) -> list:
    """Seconds from spawning a fresh process until mbpm is imported and
    every document is loaded, at the reference host speed (hostspeed.py);
    one unmeasured warm-up, then repeats."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "bench"), str(ROOT / "src"),
           *map(str, spec_paths)]
    times = []
    for i in range(_SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        word, *numbers = line.split() or [""]
        if word != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit status {code}")
        factor, probe_s = map(float, numbers)
        if i:
            times.append((elapsed - probe_s) * factor)
    return times


def _output_digest(out: Path) -> str:
    """Hash of everything an op wrote, minus report.json's timestamp line."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = b"".join(ln for ln in data.splitlines(True) if b'"timestamp"' not in ln)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


class Bench:
    """One workload at one seed: its ops, documents and per-op state."""

    def __init__(self, workload: str, seed: int):
        # Imported here, after main() put src on the path and pinned the
        # BLAS threads, which must happen before numpy loads.
        import mbpm.cli
        import checks
        import workloads

        self.mbpm = mbpm
        self.cli = mbpm.cli
        self.checks = checks
        self.workload = workload
        self.ops = workloads.WORKLOADS[workload]
        self.seeds = [workloads.op_seed(seed, i) for i in range(len(self.ops))]
        self.out_root = RUN_DIR / f"{workload}-{os.getpid()}"
        self.docs, self.exact = {}, {}
        oracle = checks.load_oracle(ROOT)
        for op in self.ops:
            if op.spec not in self.docs:
                path = ROOT / "specs" / f"{op.spec}.json"
                self.docs[op.spec] = json.loads(path.read_text(encoding="utf-8"))
                self.mbpm.load_spec(path)
            if op.suite == "moments" and op.spec == "small_support":
                doc = self.docs[op.spec]
                self.exact[op.spec] = checks.exact_moments(oracle, doc, doc["reference_state"])
        self.argvs = [
            workloads.op_argv(op, s, str(ROOT / "specs" / f"{op.spec}.json"),
                              str(self.out_root / f"op{i:02d}"))
            for i, (op, s) in enumerate(zip(self.ops, self.seeds))
        ]
        self.digests = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0

    def run_round(self, tracer=None) -> dict:
        """Run every op once; return the round's op time, each op's, and
        each op's (start, end) on the perf_counter clock."""
        op_s, windows = [], []
        for i, (op, argv) in enumerate(zip(self.ops, self.argvs)):
            out = Path(argv[argv.index("--out") + 1])
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.op = i
            stdout, stderr = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.main(argv)
                raised = None
            except Exception:  # an op that raises counts as failed; keep going
                code, raised = None, traceback.format_exc()
            end = time.perf_counter()
            op_s.append(end - start)
            windows.append((start, end))
            if tracer is not None:
                tracer.op = None
            self.attempted += 1
            problems = [f"raised:\n{raised}"] if raised else self.checks.check_op(
                op, self.seeds[i], self.docs[op.spec], out, code, stdout.getvalue(),
                self.exact.get(op.spec))
            if out.is_dir():
                digest = _output_digest(out)
                if self.digests[i] is None:
                    self.digests[i] = digest
                elif digest != self.digests[i]:
                    problems.append("outputs differ from the first round at the same seed")
            if problems:
                self.failed += 1
                print(f"op {i} {op.suite} {op.spec} seed {self.seeds[i]} FAILED: "
                      + "; ".join(problems) + f"\n{stderr.getvalue()}", file=sys.stderr)
        return {"wall": sum(op_s), "op_s": op_s, "windows": windows}

    def op_files_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_root.rglob("*") if p.is_file())

    def kept_ratio(self) -> float:
        """Survivors of the growth conditioning over replicates simulated."""
        kept = total = 0
        for argv in self.argvs:
            path = Path(argv[argv.index("--out") + 1]) / "report.json"
            if not path.exists():  # a failed op; already counted
                continue
            cond = json.loads(path.read_text(encoding="utf-8"))["results"].get("conditioning")
            if cond:
                kept += cond["kept"]
                total += cond["total"]
        return _ratio(kept, total)


def _rounds(seconds: float, step, at_least: int = 1):
    """Call step(i) at least ``at_least`` times, then until the next call
    would likely pass ``seconds``."""
    start = time.perf_counter()
    times = []
    while True:
        t0 = time.perf_counter()
        step(len(times))
        times.append(time.perf_counter() - t0)
        if (len(times) >= at_least
                and time.perf_counter() - start + _median(times) > seconds):
            return


def run_untraced(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics.  The first round warms up and is not counted;
    each counted round runs under the host-speed probe (hostspeed.py)."""
    from hostspeed import HostSpeed

    setup = measure_setup(ROOT / "specs" / f"{s}.json" for s in bench.docs)
    walls, scaled = [], []

    def step(i):
        if i == 0:
            bench.run_round()
            return
        with HostSpeed() as speed:
            r = bench.run_round()
        walls.append(r["wall"])
        scaled.append(sum(speed.scaled(a, b) for a, b in r["windows"]))

    _rounds(seconds, step, at_least=2)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"round wall time, raw ({len(walls)} rounds): {' '.join(f'{t:.4f}' for t in walls)}")
    print(f"round wall time at reference speed: {' '.join(f'{t:.4f}' for t in scaled)}")
    print(f"host speed: rounds took {_median(walls) / _median(scaled):.3f}x their time at the reference speed")
    error_rate = bench.failed / bench.attempted
    print(f"error_rate {error_rate:.6g} ratio ({bench.failed} of {bench.attempted} ops failed)")
    return {
        "setup_s": (_median(setup), "s"),
        "wall_s": (_median(scaled), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _layer_metrics(tracer, bench: Bench) -> dict:
    """Per-layer figures of one traced round (see NOTES.md for each)."""
    tot = tracer.totals()
    work = tracer.work_totals()

    def t(label, field="s"):
        rec = tot.get(label)
        return (rec[field] or 0.0) if rec else 0.0

    def c(label):
        return tot[label]["calls"] if label in tot else 0

    def w(label, unit):
        return work.get((label, unit), 0)

    rep_steps = w("model.simulate_path", "rep_steps")
    draws = w("model.sample_step_batch", "draws")
    points = w("montecarlo.gamma_cdf", "points")
    stats_s = (t("montecarlo.gamma_cdf") + t("montecarlo.normal_cdf")
               + t("montecarlo.ks_statistic") + t("cli.run", "self_s"))
    op_s = t("cli.main")
    m = {
        "trace.op_s": (op_s, "s"),
        "cli.run.self_s": (t("cli.run", "self_s"), "s"),
        "cli.bytes_written": (bench.op_files_bytes(), "bytes"),
        "cli.kept_ratio": (bench.kept_ratio(), "ratio"),
        "model.spec_from_dict.s": (t("model.spec_from_dict"), "s"),
        "model.spec_from_dict.calls": (c("model.spec_from_dict"), "count"),
        "model.simulate_path.s": (t("model.simulate_path"), "s"),
        "model.simulate_path.calls": (c("model.simulate_path"), "count"),
        "model.simulate_path.rep_steps": (rep_steps, "count"),
        "model.simulate_path.us_per_rep_step":
            (1e6 * _ratio(t("model.simulate_path"), rep_steps), "us"),
        "model.simulate_path.share": (_ratio(t("model.simulate_path"), op_s), "ratio"),
        "model.sample_migration.s": (t("model.sample_migration"), "s"),
        "model.sample_migration.calls": (c("model.sample_migration"), "count"),
        "model.sample_step_batch.s": (t("model.sample_step_batch"), "s"),
        "model.sample_step_batch.draws": (draws, "count"),
        "model.sample_step_batch.ns_per_draw":
            (1e9 * _ratio(t("model.sample_step_batch"), draws), "ns"),
        "laws.scalar_draws.calls": (c("laws.scalar_draws"), "count"),
        "laws.scalar_draws_per_rep_step":
            (_ratio(c("laws.scalar_draws"), rep_steps), "ratio"),
        "laws.batch_draws.s": (t("laws.batch_draws"), "s"),
        "laws.batch_draws.calls": (c("laws.batch_draws"), "count"),
        "laws.atoms.s": (t("laws.atoms"), "s"),
        "laws.atoms.calls": (c("laws.atoms"), "count"),
        "laws.raw_moment.s": (t("laws.raw_moment"), "s"),
        "laws.raw_moment.calls": (c("laws.raw_moment"), "count"),
    }
    for f in ("cond_mean", "cond_var", "sigma2", "migration_mean", "migration_var",
              "migration_kappa", "migration_atoms"):
        m[f"moments.{f}.s"] = (t(f"moments.{f}"), "s")
        m[f"moments.{f}.calls"] = (c(f"moments.{f}"), "count")
    m.update({
        "classify.classify_growth.s": (t("classify.classify_growth"), "s"),
        "classify.estimate_exponents.s": (t("classify.estimate_exponents"), "s"),
        "limits.euler_maruyama.s": (t("limits.euler_maruyama"), "s"),
        "limits.euler_maruyama.cells": (w("limits.euler_maruyama", "cells"), "count"),
        "limits.params_from_spec.s": (t("limits.params_from_spec"), "s"),
        "limits.a_seq.s": (t("limits.a_seq"), "s"),
        "algebra.perron.s": (t("algebra.perron"), "s"),
        "algebra.perron.calls": (c("algebra.perron"), "count"),
        "montecarlo.run_ensemble.s": (t("montecarlo.run_ensemble"), "s"),
        "montecarlo.run_ensemble.self_s": (t("montecarlo.run_ensemble", "self_s"), "s"),
        "montecarlo.stream_for.s": (t("montecarlo.stream_for"), "s"),
        "montecarlo.stream_for.calls": (c("montecarlo.stream_for"), "count"),
        "montecarlo.gamma_cdf.s": (t("montecarlo.gamma_cdf"), "s"),
        "montecarlo.gamma_cdf.calls": (c("montecarlo.gamma_cdf"), "count"),
        "montecarlo.gamma_cdf.points": (points, "count"),
        "montecarlo.gamma_cdf.points_per_call":
            (_ratio(points, c("montecarlo.gamma_cdf")), "ratio"),
        "montecarlo.normal_cdf.s": (t("montecarlo.normal_cdf"), "s"),
        "montecarlo.normal_cdf.calls": (c("montecarlo.normal_cdf"), "count"),
        "montecarlo.normal_cdf.points": (w("montecarlo.normal_cdf", "points"), "count"),
        "montecarlo.ks_statistic.s": (t("montecarlo.ks_statistic"), "s"),
        "montecarlo.moment_check.self_s": (t("montecarlo.moment_check", "self_s"), "s"),
        "montecarlo.stats_share": (_ratio(stats_s, op_s), "ratio"),
    })
    return m


def _cross_check(tracer, bench: Bench, untraced_op_s: list):
    """simulate_path microseconds per replicate-step per document beside the
    ROADMAP baseline.  The untraced figure is the untraced op time less the
    traced time outside simulate_path; a gap over 2x from the baseline
    flags a mis-sized workload or another machine."""
    for spec in sorted({op.spec for op in bench.ops}):
        ops = {i for i, op in enumerate(bench.ops) if op.spec == spec}
        steps = tracer.work_totals(ops).get(("model.simulate_path", "rep_steps"), 0)
        if not steps:
            continue
        tot = tracer.totals(ops)
        path_s = tot["model.simulate_path"]["s"]
        outside_s = tot["cli.main"]["s"] - path_s
        untraced_us = 1e6 * (sum(untraced_op_s[i] for i in ops) - outside_s) / steps
        base = _BASELINE_US.get(spec)
        flag = ""
        if base and not 0.5 <= untraced_us / base <= 2.0:
            flag = "  <-- more than 2x from the baseline"
        print(f"cross-check simulate_path {spec}: {untraced_us:.2f} us/rep-step untraced, "
              f"{1e6 * path_s / steps:.2f} traced, baseline {base or 'n/a'}{flag}")


def run_traced(bench: Bench, seconds: float) -> tuple:
    """Untraced and traced rounds at the same seeds; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, samples, counts = [], [], [], []

    def traced_round():
        tracer.reset()
        tracer.install(bench.mbpm)
        try:
            r = bench.run_round(tracer)
        finally:
            tracer.uninstall()
        traced.append(r["wall"])
        samples.append(_layer_metrics(tracer, bench))
        counts.append(tracer.counts())

    def step(i):
        untraced.append(bench.run_round())
        traced_round()
        if i == 0:
            traced_round()

    _rounds(seconds, step)
    repeat = all(c == counts[0] for c in counts)
    print(f"counts repeat exactly across {len(counts)} traced rounds: {'yes' if repeat else 'NO'}")
    op_s = [_median([r["op_s"][i] for r in untraced]) for i in range(len(bench.ops))]
    _cross_check(tracer, bench, op_s)
    RUN_DIR.mkdir(exist_ok=True)
    span_file = RUN_DIR / f"spans-{bench.workload}.json"
    span_file.write_text(json.dumps(tracer.span_records()) + "\n", encoding="utf-8")
    print(f"spans of the last traced round: {span_file.relative_to(ROOT)}"
          f" ({len(tracer.spans)} spans)")
    # counts repeat exactly (checked above); times take the median
    metrics = {}
    for name, (first, unit) in samples[0].items():
        values = [s[name][0] for s in samples]
        metrics[name] = (first if values.count(first) == len(values) else _median(values), unit)
    metrics["trace.overhead_s"] = (_median(traced) - _median([r["wall"] for r in untraced]), "s")
    print(f"rounds: {len(untraced)} untraced, {len(traced)} traced")
    return metrics, repeat


def _environment():
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"environment: nproc {nproc}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy_version}, "
          f"BLAS threads pinned to 1 ({', '.join(_BLAS_VARS)}), workers=1, "
          "MBPM_WORKERS unset, ops in one process (the process-pool path is not measured)")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "mbpm" / "cli.py", ROOT / "specs", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a checkout of mbpm, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    _environment()
    bench = Bench(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{op.suite}/{op.spec}@{s}" for op, s in zip(bench.ops, bench.seeds)))
    try:
        if args.trace:
            metrics, repeat = run_traced(bench, args.seconds)
        else:
            metrics, repeat = run_untraced(bench, args.seconds), True
    finally:
        shutil.rmtree(bench.out_root, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": bench.failed == 0 and repeat,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
