"""The package's export list and import footprint."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tfqkd


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from tfqkd import *", namespace)
    assert len(set(tfqkd.__all__)) == len(tfqkd.__all__)
    for name in tfqkd.__all__:
        assert namespace[name] is getattr(tfqkd, name)


_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import tfqkd
after_import = scipy_modules()
from tfqkd import cli
from tfqkd.channel import IntensitySettings, standard_noise
from tfqkd.optimize import (FluctuationSpec, OptimizationSpec, optimize_rate,
                            worst_case_fluctuation)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["plob", "--loss-a", "20", "--loss-b", "30"]) == 0
optimize_rate(standard_noise(12, 24), OptimizationSpec(decoys=3, multistart=2), maxiter=5)
center = IntensitySettings(alpha_a=0.08, alpha_b=0.09, mu=(0.05, 1e-4, 1e-5),
                           nu=(0.06, 1e-4, 1e-5))
worst_case_fluctuation(standard_noise(30, 30), center, FluctuationSpec(magnitude=0.1, budget=2))
print(json.dumps([after_import, scipy_modules()]))
"""


def test_import_and_searches_load_no_scipy():
    # a fresh interpreter, so modules the test session loaded do not count
    src = str(Path(tfqkd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    after_import, after_searches = json.loads(out)
    assert after_import == []
    assert after_searches == []


def test_runtime_dependencies_are_numpy_only():
    # SciPy serves the tests alone (their reference search and LP checks)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
    package = Path(tfqkd.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        imports = re.search(r"^\s*(from|import)\s+scipy\b", path.read_text(), re.M)
        assert not imports, path.relative_to(package)


def test_benchmark_bound_names_resolve(monkeypatch):
    # the traced benchmark looks up every name it patches, and its cache
    # reset every cache it finds: a deleted or renamed one fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(getattr(module, attr) is original for module, attr, original in tracer._originals)
    workloads.clear_caches()


def test_exact_lp_imports_no_fractions():
    # every exact number is an int triple of ``tfqkd.dyadic``; a Fraction
    # path beside it would be a second number format
    package = Path(tfqkd.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert package / "oracles" / "simplex.py" in modules
    for path in modules:
        tree = ast.parse(path.read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level}
        assert "fractions" not in imported, path.relative_to(package)


def test_import_loads_neither_fractions_nor_the_oracles():
    # a fresh interpreter: the core keeps one exact number format and does
    # not depend on the verification layer
    src = str(Path(tfqkd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    probe = ("import json, sys, tfqkd; print(json.dumps(sorted(m for m in sys.modules "
             "if m == 'fractions' or m.startswith('tfqkd.oracles'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
