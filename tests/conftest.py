"""Shared fixtures: model documents and the large pinned-seed ensembles.

The heavy ensembles are built once per session and reused by every test
that needs them, so the acceptance suite's runtime budget is paid once.
"""
import json
import os
import subprocess
import sys
import time

import pytest

import oracles
from mbpm import InverseCubeEmigration, UniformEmigration, load_spec, run_ensemble

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
# the stems of the shipped documents
SHIPPED = sorted(name[:-5] for name in os.listdir(SPEC_DIR) if name.endswith(".json"))

# One line per acceptance criterion, shown in the terminal summary so the
# verdicts stay visible under output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def spec_path(name):
    return os.path.abspath(os.path.join(SPEC_DIR, name + ".json"))


def load_doc(name):
    with open(spec_path(name)) as fh:
        return json.load(fh)


# The oracle atoms of the emigration laws whose support grows with the count,
# which have none of their own.
_GROWING_ATOMS = {UniformEmigration: oracles.uniform_atoms,
                  InverseCubeEmigration: oracles.inverse_cube_atoms}


def emigration_atoms(law, zi):
    """The atoms (values, probs) of an emigration law at the count zi >= 1:
    the oracle's where the support grows with the count, else the law's own."""
    growing = _GROWING_ATOMS.get(type(law))
    return growing(zi) if growing else law.atoms(zi)


def run_fresh(argv, env=None, **kwargs):
    """Run ``python *argv`` in a fresh interpreter that imports mbpm from
    this checkout's src/, with ``env`` added to the environment; the
    completed process, its output captured as text.  ``kwargs`` go to
    subprocess.run."""
    env = dict(os.environ, **(env or {}))
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          **kwargs)


# numpy picks the SIMD kernels of its ufuncs (exp, log, power, log1p, ...)
# by CPU, and they may round differently from one another; this environment
# takes an x86-64 numpy down to its X86_V2 baseline.  A name numpy does not
# dispatch is ignored (with an ImportWarning), so it runs on any host.
NUMPY_BASELINE = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def run_python(code):
    """Run ``code`` in a fresh interpreter; its stdout, once it has exited
    with status 0."""
    proc = run_fresh(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def two_type_spec():
    return load_spec(spec_path("two_type_mixed"))


@pytest.fixture(scope="session")
def gamma_spec():
    return load_spec(spec_path("gamma_single_type"))


@pytest.fixture(scope="session")
def sqrt_spec():
    return load_spec(spec_path("sqrt_drift_single_type"))


@pytest.fixture(scope="session")
def emigration_spec():
    return load_spec(spec_path("pure_emigration"))


@pytest.fixture(scope="session")
def small_support_spec():
    return load_spec(spec_path("small_support"))


@pytest.fixture(scope="session")
def pure_death_spec():
    return load_spec(spec_path("pure_death"))


# Pinned ensembles.  Seeds are frozen so every run sees the same draws.

# Seconds each pinned ensemble took to build, by fixture name; the
# acceptance criteria charge it to every criterion that reads the ensemble.
BUILD_SECONDS = {}


def timed_ensemble(name, spec, **kwargs):
    """``run_ensemble(spec, **kwargs)``, its build time kept in BUILD_SECONDS[name]."""
    t0 = time.perf_counter()
    ens = run_ensemble(spec, **kwargs)
    BUILD_SECONDS[name] = time.perf_counter() - t0
    return ens


@pytest.fixture(scope="session")
def gamma_ensemble(gamma_spec):
    """5000 constant-drift paths to generation 1000, kept at steps 500 and 1000."""
    return timed_ensemble("gamma_ensemble", gamma_spec, n=1000, R=5000, master_seed=31416,
                          steps=(500, 1000))


@pytest.fixture(scope="session")
def sqrt_ensemble(sqrt_spec):
    """3000 square-root-drift paths to generation 2000, terminals only."""
    return timed_ensemble("sqrt_ensemble", sqrt_spec, n=2000, R=3000, master_seed=27183)


@pytest.fixture(scope="session")
def emigration_ensemble(emigration_spec):
    """2000 emigration-only paths to generation 500, every step kept."""
    return timed_ensemble("emigration_ensemble", emigration_spec, n=500, R=2000,
                          master_seed=16180, steps=range(501))
