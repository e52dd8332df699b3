import ast
import importlib
import inspect
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

import irschain
from irschain import cli
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
    "deployment": ("optimal_index", "scheme_middle", "scheme_all_pirs", "wpt_crossover_np"),
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
    # response; the report formats logs, so the linear dB converters went; no command
    # read the float ratio report, whose gains are differences of the dB columns
    name = "irschain" if path.stem == "__init__" else f"irschain.{path.stem}"
    module = importlib.import_module(name)
    retired = ("steering_vector", "ula_response", "optimal_reflection_phases", "chain_geometry",
               "linear_to_db", "watts_to_dbm", "ratio_diagnostics", "RatioReport", "_over_exp")
    assert [attr for attr in retired if hasattr(module, attr)] == []


# Functions no command reaches, each with the reason it stays
UNREACHED = {
    "cli.main": "the console entry point; the guard calls cli.run, which main wraps",
    "channel.hop_matrices": "the dense oracle reference; perfbench's tracer binds it by name",
    "channel.upa_response": "called only by hop_matrices, which perfbench's tracer binds",
    "deployment.scheme_middle": "perfbench's tracer binds it by name",
    "deployment.wpt_crossover_np": "test_criterion_5_scheme_comparisons reads the crossover",
}


def _defined_functions():
    """{(path, first line, name): dotted name} of every function in the package; the
    first line is a decorator's, as in the function's code object."""
    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    yield (str(path.resolve()), first, child.name), name
                yield from walk(child, name, path)

    return {key: name for path in MODULES
            for key, name in walk(ast.parse(path.read_text(), filename=str(path)),
                                  path.stem, path)}


def test_every_function_is_reached_by_a_command(tmp_path):
    # every command on default, panel-size, long-chain, dB-suffixed and bad-key inputs,
    # in process; a function none of them calls goes, or is listed above with its reason
    configs = {"long": "j = 400\n", "db": "pt = 30 dBm\nsigma2 = -90 dBm\nbeta0 = -30 dB\n",
               "bad": "power = 3\n"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    runs = [(["eval", "--mode", mode, *extra], code)
            for mode in ("wit", "wpt")
            for extra, code in (([], 0), (["--np", "2000"], 0),
                                (["--config", str(tmp_path / "long.cfg")], 2),
                                (["--config", str(tmp_path / "db.cfg")], 0),
                                (["--config", str(tmp_path / "bad.cfg")], 2))]
    runs += [(["sweep", "--mode", "wit", "--np", "10:1400:log:5"], 0),
             (["sweep", "--mode", "wpt", "--np", "10:100:linear:30"], 0),
             (["figures", "--outdir", str(tmp_path / "figures")], 0),
             (["validate", "--oracle-samples", "2"], 0)]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno, code.co_name))

    codes, previous = [], sys.getprofile()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        sys.setprofile(record)
        try:
            for argv, _ in runs:
                codes.append(cli.run(argv))
        finally:
            sys.setprofile(previous)
    assert codes == [code for _, code in runs]
    reached = {(os.path.realpath(file), line, name) for file, line, name in called}
    unreached = sorted(name for key, name in _defined_functions().items() if key not in reached)
    assert unreached == sorted(UNREACHED)
