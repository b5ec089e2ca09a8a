"""The package's exports and the submodules a fresh interpreter loads."""
import ast
import json
import os
import textwrap

import pytest

import mbpm
from conftest import run_python, spec_path

EXPORTED = [
    "BernoulliOffspring", "Clamp", "Constant", "DeterministicEmigration",
    "DeterministicImmigration", "DeterministicInitial", "Ensemble", "FiniteOffspring",
    "GeometricOffspring", "GoFReport", "GrowthVerdict", "IndependentOffspring",
    "InverseCubeEmigration", "LimitParams", "MigrationComponent",
    "ModelSpec", "MomentCheckReport", "PoissonOffspring",
    "Power", "ProbabilityEstimate", "ShiftedPoissonImmigration", "SpecFormatError",
    "SpectralData", "Table", "TableImmigration", "TableInitial", "TableOffspring",
    "TruncatedGeometricEmigration", "UniformEmigration", "a_seq", "advance", "algebra",
    "classify", "classify_growth", "cond_mean", "cond_var", "criticality", "estimate_explosion",
    "estimate_exponents", "euler_maruyama", "feller_params", "gamma_cdf", "gamma_quantile",
    "gof_report", "is_primitive", "ks_statistic", "lambda_n", "laws",
    "limits", "load_spec", "migration_atoms", "migration_kappa",
    "migration_mean", "migration_var", "model", "moment_check", "moments",
    "montecarlo", "normal_cdf", "odot", "params_from_spec", "perron",
    "run_ensemble", "sample_migration", "sample_offspring", "sample_step_batch", "sigma2",
    "simulate_path", "spec_digest", "spec_from_dict", "spec_to_dict", "stream_for",
    "wilson_interval",
]
SUBMODULES = ["algebra", "classify", "laws", "limits", "model", "moments", "montecarlo"]


def load_spec_alone():
    """What a fresh interpreter holds after loading one document."""
    code = textwrap.dedent(f"""
        import json, sys
        from mbpm import load_spec
        load_spec({spec_path("two_type_mixed")!r})
        print(json.dumps({{
            "mbpm": sorted(m for m in sys.modules if m.split(".")[0] == "mbpm"),
            "hashlib": "hashlib" in sys.modules,
        }}))
    """)
    return json.loads(run_python(code))


def test_load_spec_loads_only_model_laws_and_algebra():
    assert load_spec_alone()["mbpm"] == ["mbpm", "mbpm.algebra", "mbpm.laws", "mbpm.model"]


def test_load_spec_leaves_hashlib_unloaded():
    assert load_spec_alone()["hashlib"] is False


def test_star_import_binds_each_name_its_module_exports():
    # every bound object is the one its defining module holds under that name
    code = textwrap.dedent("""
        import json, sys, types
        names = {}
        exec("from mbpm import *", names)
        del names["__builtins__"]

        def source(name, obj):
            if isinstance(obj, types.ModuleType):
                return sys.modules["mbpm." + name]
            return getattr(sys.modules[obj.__module__], name)

        print(json.dumps({
            "bound": sorted(names),
            "foreign": [n for n, obj in names.items() if obj is not source(n, obj)],
            "modules": sorted(n for n, obj in names.items() if isinstance(obj, types.ModuleType)),
        }))
    """)
    result = json.loads(run_python(code))
    assert result["bound"] == EXPORTED
    assert result["foreign"] == []
    assert result["modules"] == SUBMODULES


def test_exports_are_listed_and_unknown_names_refused():
    assert mbpm.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(mbpm))
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        mbpm.not_exported


def test_public_namespace_is_the_exports_alone():
    # in a fresh interpreter, before any submodule has loaded
    code = "import json, mbpm; print(json.dumps([n for n in dir(mbpm) if n[0] != '_']))"
    assert json.loads(run_python(code)) == EXPORTED


def test_cli_imports_no_private_classify_name():
    # the classify suite calls classify_growth: the CLI must not rebuild the
    # classifier from its private parts
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mbpm", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("classify", "mbpm.classify")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# Names the benchmark tracer still pins (bench/tracer.py); the demos reach
# each job through its one entry point instead: gof_report for KS,
# classify_growth for the growth exponents, run_ensemble for paths,
# cond_mean and cond_var for the exact moments.
TRACER_ONLY = {"ks_statistic", "estimate_exponents", "simulate_path", "euler_maruyama",
               "migration_atoms", "migration_kappa"}


def _tracer_only_uses(folder, skip=()):
    """(script, name) for each import, attribute or name of a TRACER_ONLY
    function in folder's scripts; its own def is not a use."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, folder)
    used = []
    for script in sorted(os.listdir(root)):
        if not script.endswith(".py") or script in skip:
            continue
        with open(os.path.join(root, script), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            used += [(script, name) for name in names if name in TRACER_ONLY]
    return used


def test_demos_use_no_tracer_only_name():
    assert _tracer_only_uses("demos") == []


def test_package_uses_no_tracer_only_name():
    # they go once the tracer lets go of them, so no program path may start
    # to call one; the export table names them only as strings
    assert _tracer_only_uses(os.path.join("src", "mbpm"), skip=("__init__.py",)) == []


def _python_files():
    """The package's modules but its export table, the tests and the demos."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for folder in (os.path.join("src", "mbpm"), "tests", "demos"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if name.endswith(".py") and (folder, name) != (os.path.join("src", "mbpm"),
                                                           "__init__.py"):
                yield os.path.join(folder, name), os.path.join(root, folder, name)


def test_every_imported_name_is_read():
    # an import whose name nothing reads is dead; "# noqa: F401" marks one
    # kept for its side effect
    unread = []
    for label, path in _python_files():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(a, a.asname or a.name) for a in node.names]
            else:
                continue
            unread += [f"{label}:{a.lineno} {name}" for a, name in bound
                       if name not in read and "# noqa: F401" not in lines[a.lineno - 1]]
    assert unread == []
