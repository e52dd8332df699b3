import ast
import importlib
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import irschain
from irschain.params import LinkBudget

MODULES = sorted(Path(irschain.__file__).parent.glob("*.py"))
PERFBENCH = Path(irschain.__file__).parents[2] / "perfbench"


def test_package_binds_only_its_submodules():
    # every name is imported from the module that defines it
    submodules = {path.stem for path in MODULES}
    public = [name for name in vars(irschain) if not name.startswith("_")]
    assert [name for name in public if name not in submodules] == []


def test_closed_form_core_imports_without_numpy():
    code = ("import sys, irschain.params, irschain.metrics, irschain.deployment; "
            "print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(irschain.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


# the closed forms and the oracle's beamformer read the LinkBudget they are given
BUDGET_READERS = {
    "metrics": ("objective", "snr_closed", "power_closed"),
    "deployment": ("optimal_index", "scheme_middle", "scheme_all_pirs", "wpt_crossover_np",
                   "ratio_diagnostics"),
    "beamforming": ("optimal_configuration",),
}


def test_budget_readers_take_the_budget_without_a_default():
    defaulted = [
        f"{module}.{name}"
        for module, names in BUDGET_READERS.items()
        for name in names
        if inspect.signature(getattr(importlib.import_module(f"irschain.{module}"), name))
        .parameters["budget"].default is not inspect.Parameter.empty
    ]
    assert defaulted == []


def test_only_params_checks_parameters():
    # derive_link_budget validates; the layers that compute take its budget as given
    bound = [
        f"{module}.{name}"
        for module in ("metrics", "deployment", "beamforming", "channel")
        for name in ("derive_link_budget", "validate", "model_warnings", "fraunhofer_distance")
        if name in vars(importlib.import_module(f"irschain.{module}"))
    ]
    assert bound == []


def test_every_budget_field_is_read():
    # the budget holds what the solvers read: each field is read as an attribute
    # outside the constructor that stores it (perfbench's checks read kappa_i)
    sources = MODULES + sorted(PERFBENCH.glob("*.py"))
    assert PERFBENCH / "run.py" in sources
    read = set()
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        constructor = [node for cls in tree.body
                       if isinstance(cls, ast.ClassDef) and cls.name == "LinkBudget"
                       for node in cls.body
                       if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
        skipped = {node for init in constructor for node in ast.walk(init)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and node not in skipped}
    assert [field.name for field in fields(LinkBudget) if field.name not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_is_imported_from_a_sibling_module(path):
    # a private helper lives in the one module that calls it
    imported = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "irschain")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_retired_test_only_helpers_stay_out(path):
    # tests/reference.py holds the first four, and upa_response is the one array
    # response; the report formats logs, so the linear dB converters went
    name = "irschain" if path.stem == "__init__" else f"irschain.{path.stem}"
    module = importlib.import_module(name)
    retired = ("steering_vector", "ula_response", "optimal_reflection_phases", "chain_geometry",
               "linear_to_db", "watts_to_dbm")
    assert [attr for attr in retired if hasattr(module, attr)] == []
