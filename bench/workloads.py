"""The benchmark's workloads: fixed lists of ``mbpm`` command line ops.

An op is one ``mbpm.cli.main`` call: one suite on one shipped document at
one seed.  A round runs a workload's ops once, in order; a run repeats the
round with the same op seeds, so every round does identical work.  Why
each workload exists, and why its thresholds are what they are, is in
NOTES.md next to this file.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    suite: str
    spec: str  # document stem under specs/
    args: tuple = ()  # extra CLI arguments: sizes and pass thresholds


_CLASSIFY_SPECS = (
    "gamma_single_type",
    "sqrt_drift_single_type",
    "two_type_mixed",
    "pure_emigration",
)
# classify is deterministic and takes 5-30 ms per document; repeating it
# keeps its share of the round near a third, beside the 1e6-draw moments op.
_CLASSIFY_REPEATS = 8

WORKLOADS = {
    "paths-long": (
        Op("l1-limit", "sqrt_drift_single_type",
           ("--n", "400", "--reps", "100", "--threshold-rel", "0.1")),
        Op("explosion", "two_type_mixed", ("--n", "400", "--reps", "100")),
        Op("feller", "gamma_single_type",
           ("--n", "500", "--reps", "150", "--threshold-ks", "0.3")),
    ),
    "replicates-wide": (
        Op("gamma-limit", "gamma_single_type",
           ("--n", "8", "--reps", "10000", "--threshold-ks", "0.2")),
        Op("normal-limit", "sqrt_drift_single_type",
           ("--n", "8", "--reps", "10000", "--threshold-ks", "0.3")),
    ),
    "one-step-exact": (
        Op("moments", "two_type_mixed", ("--reps", "1000000")),
        Op("moments", "small_support", ("--reps", "100000")),
    )
    + tuple(Op("classify", s) for s in _CLASSIFY_SPECS) * _CLASSIFY_REPEATS,
}


def op_seed(workload_seed: int, index: int) -> int:
    """The --seed of op ``index``: a stable 32-bit hash of the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def op_argv(op: Op, seed: int, spec_path: str, out_dir: str) -> list:
    """The argument vector of one op; the ensemble always runs in-process."""
    return [
        "--spec", spec_path, "--suite", op.suite, "--seed", str(seed),
        "--out", out_dir, "--workers", "1", *op.args,
    ]


def option(op: Op, name: str, default: float) -> float:
    """The value of a numeric CLI option of the op, or the CLI's default."""
    if name in op.args:
        return float(op.args[op.args.index(name) + 1])
    return default
